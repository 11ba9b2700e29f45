import dataclasses
import os
import subprocess
import sys

import pytest

from certunlearn import VacuousBound, cli
from certunlearn.cli import (EXIT_CALIBRATION, EXIT_CONFIG, EXIT_IO, EXIT_OK, main)
from certunlearn.harness import ExperimentConfig


class TestExitCodes:
    def test_calibrate_ok(self, tmp_path):
        out = tmp_path / "cal.csv"
        code = main(["calibrate-sigma", "--preset", "mnist38", "--eps", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_calibration_infeasible(self, tmp_path):
        out = tmp_path / "cal.csv"
        code = main(["calibrate-sigma", "--preset", "mnist38", "--eps", "1e-9",
                     "--out", str(out)])
        assert code == EXIT_CALIBRATION

    def test_vacuous_bound_is_calibration_infeasible(self, tmp_path, monkeypatch):
        def vacuous(cfg):
            raise VacuousBound()
        monkeypatch.setattr(cli, "run_sequential", vacuous)
        code = main(["sequential", "--preset", "mnist38", "--sigma", "0.03", "--eps", "1",
                     "--out", str(tmp_path / "seq.csv")])
        assert code == EXIT_CALIBRATION

    def test_io_error(self, tmp_path):
        code = main(["calibrate-sigma", "--preset", "mnist38", "--eps", "1",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == EXIT_IO

    def test_bad_eps_is_config_error(self, tmp_path):
        code = main(["calibrate-sigma", "--eps", "banana",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["calibrate-sigma", "--k-budget", "-1"],
        ["calibrate-sigma", "--delta", "2"],
        ["calibrate-sigma", "--batch", "0"],
        ["sequential", "--sigma", "0"],
        ["sequential", "--sigma", "0.03", "--batch", "0"],
        ["calibrate-sigma", "--k-budget", "abc"],
    ], ids=" ".join)
    def test_out_of_range_flag_is_config_error(self, tmp_path, capsys, argv):
        code = main([*argv, "--preset", "mnist38", "--eps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_data_for_real_preset(self, tmp_path):
        code = main(["unlearn-one", "--preset", "mnist38", "--eps", "1",
                     "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_malformed_dataset_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# d=2 c=2 normalized=0\n1.0,oops,1\n")
        code = main(["unlearn-one", "--preset", "mnist38", "--eps", "1",
                     "--trials", "1", "--data", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO


class TestConfigFile:
    def test_abbreviated_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        out = tmp_path / "x.csv"
        code = main(["calibrate-sigma", "--config", str(cfg), "--preset", "mnist38",
                     "--eps", "1", "--se", "5", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1].endswith(",5")

    @pytest.mark.parametrize("text", ["preset = bogus\n", "timing = maybe\n"],
                             ids=["preset", "timing"])
    def test_bad_value_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main(["calibrate-sigma", "--config", str(cfg), "--eps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_timing_true_fills_wall_ms(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timing = true\n")
        out = tmp_path / "u.csv"
        code = main(["unlearn-one", "--config", str(cfg), "--trials", "1",
                     "--n-iter", "20", "--out", str(out)])
        assert code == EXIT_OK
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[7]) > 0.0  # wall_ms, empty unless timing is on

    def test_file_sets_flags_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\npreset = mnist38\neps = 1,2\nseed = 9\n"
                       "k-budget = 1\n")
        out = tmp_path / "res.csv"
        code = main(["calibrate-sigma", "--config", str(cfg), "--eps", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2          # --eps overrode the file's two targets
        assert lines[1].endswith(",9")  # seed came from the file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        code = main(["calibrate-sigma", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        code = main(["calibrate-sigma", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG


def test_every_flag_sets_a_config_field():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"config"}
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    for name, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        assert dests <= fields, (name, dests - fields)


class TestOutputs:
    def test_unlearn_one_writes_results_and_trial_log(self, tmp_path):
        out = tmp_path / "u.csv"
        code = main(["unlearn-one", "--preset", "synthetic", "--eps", "1",
                     "--trials", "2", "--n-iter", "60", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        assert (tmp_path / "u.trials.csv").exists()

    def test_sequential_writes_plot_file(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sequential", "--preset", "mnist38", "--sigma", "0.02",
                     "--eps", "1", "--batch", "5", "--total-removals", "10",
                     "--trials", "0", "--out", str(out)])
        assert code == EXIT_OK
        plot = (tmp_path / "s.plot.csv").read_text().splitlines()
        assert plot[0] == "x,y,yerr"
        assert len(plot) == 3

    def test_d2d_diagnostic_report(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["d2d", "--preset", "mnist38", "--eps", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("preset,theorem")
        ratios = [float(l.split(",")[-1]) for l in lines[1:]
                  if l.split(",")[-1]]
        # verbatim formula sits a constant factor above the reference table
        assert all(1.3 < r < 1.6 for r in ratios)

    def test_make_data_round_trip(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(["make-data", "--preset", "synthetic", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        from certunlearn import load_dataset

        data = load_dataset(str(out))
        assert data.n == 2000 and data.d == 20

    def test_console_entry_point(self, tmp_path):
        env = dict(os.environ, UNLEARN_LOG="error")
        out = tmp_path / "cal.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "certunlearn.cli", "calibrate-sigma",
             "--preset", "mnist38", "--eps", "1", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert out.exists()
        assert proc.stdout == ""  # results go only to --out


class TestLoggingEnv:
    def test_invalid_level_warns_and_falls_back(self, tmp_path):
        env = dict(os.environ, UNLEARN_LOG="chatty")
        proc = subprocess.run(
            [sys.executable, "-m", "certunlearn.cli", "calibrate-sigma",
             "--preset", "mnist38", "--eps", "1",
             "--out", str(tmp_path / "c.csv")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "UNLEARN_LOG" in proc.stderr

    def test_info_level_logs_progress(self, tmp_path):
        env = dict(os.environ, UNLEARN_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "certunlearn.cli", "unlearn-one",
             "--preset", "synthetic", "--eps", "1", "--trials", "1",
             "--n-iter", "30", "--out", str(tmp_path / "u.csv")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "unlearn-one" in proc.stderr
