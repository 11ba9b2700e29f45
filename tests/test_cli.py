import contextlib
import dataclasses
import hashlib
import io
import logging
import os
import subprocess
import sys

import pytest

from certunlearn import (INFINITE, BudgetUnreachable, CalibrationInfeasible, CapOverflow,
                         InfeasibleBudget, NoFeasibleSigma, NoiseSchedule, SyntheticSpec,
                         VacuousBound, binary_search_sigma, cli, converted_epsilon,
                         d2d_sigma_thm28, find_min_k, get_preset, load_dataset, make_synthetic,
                         objective_for, regime_for, save_dataset, sequential_k_schedule)
from certunlearn.cli import (EXIT_CALIBRATION, EXIT_CONFIG, EXIT_IO, EXIT_OK, main)
from certunlearn.harness import METHODS, ExperimentConfig


def _subcommand_fields():
    """{subcommand: the ExperimentConfig fields its flags set}, --config and
    --out aside."""
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    return {name: {a.dest for a in parser._actions} - {"help", "config", "out"}
            for name, parser in sub.choices.items()}


# a well-formed value for each flag (None: the flag takes none)
_SAMPLE_VALUES = {
    "preset": "mnist38", "method": "retrain", "eps_targets": "1", "delta": "0.001",
    "sigma": "0.5", "sigma_grid": "0.5", "k_budget": "2", "batch": "2", "s_total": "2",
    "trials": "0", "seed": "1", "n_iter": "5", "init_mean": "0",
    "data_path": "data.csv", "test_data_path": "data.csv", "timing": None,
}
_FOREIGN = [(name, field) for name, fields in _subcommand_fields().items()
            for field in cli._FLAGS if field not in fields]


_DELTA_TOO_SMALL = "config error: delta must be in [2.2250738585072014e-308, 1), got 1e-310"


def _assert_config_error_once(err, caplog):
    """The message reaches stderr once, as the `config error:` line: it is
    neither repeated there nor logged as well."""
    assert err.startswith("config error: ")
    message = err[len("config error: "):].strip()
    assert err.count(message) == 1
    assert not [r for r in caplog.records if message in r.getMessage()]


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

    def test_vacuous_bound_is_calibration_infeasible(self, tmp_path, monkeypatch, capsys):
        # and so is every other way of having no certificate
        errors = [VacuousBound(), CapOverflow(800.0), BudgetUnreachable(1.0, 10),
                  NoFeasibleSigma(1.0, 1), InfeasibleBudget("no solution")]
        assert {type(e) for e in errors} == set(CalibrationInfeasible.__subclasses__())
        for error in errors:
            def infeasible(cfg):
                raise error
            monkeypatch.setattr(cli, "run_sequential", infeasible)
            code = main(["sequential", "--preset", "mnist38", "--sigma", "0.03", "--eps", "1",
                         "--out", str(tmp_path / "seq.csv")])
            assert code == EXIT_CALIBRATION, error
            assert capsys.readouterr().err == f"calibration infeasible: {error}\n"

    def test_io_error(self, tmp_path, capsys):
        for command in ("calibrate-sigma", "d2d"):  # both go through one writer
            code = main([command, "--preset", "mnist38", "--eps", "1",
                         "--out", str(tmp_path / "missing" / "x.csv")])
            assert code == EXIT_IO, command
            assert capsys.readouterr().err.startswith("i/o error: cannot write results to")

    def test_make_data_io_error_names_the_path(self, tmp_path, capsys):
        code = main(["make-data", "--out", str(tmp_path / "missing" / "d.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: cannot write results to")

    @pytest.mark.parametrize("argv,expect", [
        (["unlearn-one", "--method", "d2d_thm9", "--eps", "1e-17", "--trials", "0"],
         EXIT_CALIBRATION),
        (["unlearn-one", "--method", "d2d_thm28", "--eps", "1e-300", "--trials", "0"],
         EXIT_CALIBRATION),
        (["sequential", "--method", "d2d_thm28", "--eps", "1e-300", "--trials", "0"],
         EXIT_CALIBRATION),
        (["d2d", "--eps", "1e-300"], EXIT_OK),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_d2d_eps_below_float64_resolution(self, tmp_path, capsys, caplog, argv, expect):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == expect
        assert "divides by zero" in capsys.readouterr().err + caplog.text
        if argv[0] == "sequential":
            assert not out.exists()
        else:  # an error row, or the report's blank stateless row
            assert out.read_text().splitlines()[-1].split(",")[4] == ""

    @pytest.mark.parametrize("argv,expect,says", [
        # an infinite target: a bare math-domain traceback, or sigma=0 at exit 0
        (["unlearn-one", "--preset", "synthetic", "--trials", "0", "--method", "d2d_thm28",
          "--eps", "inf"], EXIT_CONFIG, "eps targets must be positive and finite"),
        (["d2d", "--preset", "mnist38", "--eps", "inf"], EXIT_CONFIG,
         "eps targets must be positive and finite"),
        (["unlearn-one", "--preset", "synthetic", "--trials", "0", "--method", "d2d_thm9",
          "--eps", "inf"], EXIT_CONFIG, "eps targets must be positive and finite"),
        # a delta whose log(1/delta) is infinite: sigma=nan, a NaN traceback, or
        # a vacuous bound
        (["unlearn-one", "--preset", "synthetic", "--trials", "0", "--method", "d2d_thm9",
          "--delta", "1e-310"], EXIT_CONFIG, _DELTA_TOO_SMALL),
        (["d2d", "--preset", "mnist38", "--delta", "1e-310"], EXIT_CONFIG, _DELTA_TOO_SMALL),
        (["unlearn-one", "--preset", "synthetic", "--trials", "0", "--delta", "1e-310"],
         EXIT_CONFIG, _DELTA_TOO_SMALL),
        (["calibrate-sigma", "--preset", "mnist38", "--delta", "1e-310"], EXIT_CONFIG,
         _DELTA_TOO_SMALL),
        # 4*d*i/delta overflows in the stateless step rule: an OverflowError
        (["sequential", "--preset", "cifar10-multi", "--trials", "0", "--method", "d2d_thm28",
          "--total-removals", "3", "--delta", "1e-305"], EXIT_CALIBRATION,
         "request 1: 4*d*i/delta overflows float64 at delta=1e-305"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_non_finite_certificate_inputs_exit_typed(self, tmp_path, capsys, argv, expect,
                                                      says):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == expect
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err, err
        for path in tmp_path.glob("x*.csv"):
            text = path.read_text().lower()
            assert "nan" not in text and "inf" not in text, path

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
    def test_out_of_range_flag_is_config_error(self, tmp_path, capsys, caplog, argv):
        code = main([*argv, "--preset", "mnist38", "--eps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        _assert_config_error_once(capsys.readouterr().err, caplog)
        assert not (tmp_path / "x.csv").exists()

    def test_missing_data_for_real_preset(self, tmp_path):
        code = main(["unlearn-one", "--preset", "mnist38", "--eps", "1",
                     "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("case,expect", [
        ("sweep_removes_more_than_n", EXIT_CONFIG),
        ("sequential_removes_more_than_n", EXIT_CONFIG),
        ("header_normalized_0", EXIT_IO),
        ("row_not_unit_norm", EXIT_IO),
        ("test_data_other_d", EXIT_IO),
        ("test_data_other_classes", EXIT_IO),
    ])
    def test_bad_outside_input_is_one_line(self, tmp_path, capsys, case, expect):
        """Outside inputs that used to end in a traceback exit with a typed
        error: one stderr line and no result file."""
        train = tmp_path / "train.csv"
        save_dataset(make_synthetic(SyntheticSpec(n=40, d=4), seed=1), str(train))
        lines = train.read_text().splitlines()
        files = {
            "header_normalized_0": [lines[0].replace("normalized=1", "normalized=0"),
                                    *lines[1:]],
            "row_not_unit_norm": [*lines[:5], "3.0," + lines[5].split(",", 1)[1], *lines[6:]],
        }
        data = tmp_path / "data.csv"
        data.write_text("\n".join(files.get(case, lines)) + "\n")
        other = tmp_path / "other.csv"
        other_spec = (SyntheticSpec(n=30, d=5) if case == "test_data_other_d"
                      else SyntheticSpec(n=30, d=4, n_classes=3))
        save_dataset(make_synthetic(other_spec, seed=2), str(other))
        trial = ["--trials", "1", "--n-iter", "5"]
        argv = {
            "sweep_removes_more_than_n": ["sweep", "--preset", "synthetic", "--sigma-grid", "1",
                                          "--eps", "1", "--total-removals", "2001", *trial],
            "sequential_removes_more_than_n": ["sequential", "--preset", "synthetic",
                                               "--sigma", "1", "--eps", "1", "--batch", "1000",
                                               "--total-removals", "2500", *trial],
            "header_normalized_0": ["unlearn-one", "--data", str(data), *trial],
            "row_not_unit_norm": ["unlearn-one", "--data", str(data), *trial],
            "test_data_other_d": ["unlearn-one", "--data", str(data),
                                  "--test-data", str(other), *trial],
            "test_data_other_classes": ["evaluate", "--data", str(data),
                                        "--test-data", str(other), *trial],
        }[case]
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == expect
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("config error: " if expect == EXIT_CONFIG else "i/o error: ")
        if case == "row_not_unit_norm":
            assert err.startswith(f"i/o error: {data}: line 6: ")
        assert not list(tmp_path.glob("x*.csv"))

    def test_dataset_error_names_the_file(self, tmp_path, capsys):
        train, bad = tmp_path / "train.csv", tmp_path / "test.csv"
        save_dataset(make_synthetic(SyntheticSpec(n=40, d=4), seed=1), str(train))
        bad.write_text("# d=4 c=2 normalized=0\n1.0,2.0,oops,4.0,1\n")
        code = main(["unlearn-one", "--data", str(train), "--test-data", str(bad),
                     "--trials", "1", "--n-iter", "5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            f"i/o error: {bad}: line 2: could not convert string to float: 'oops'\n")

    def test_malformed_dataset_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# d=2 c=2 normalized=0\n1.0,oops,1\n")
        code = main(["unlearn-one", "--preset", "mnist38", "--eps", "1",
                     "--trials", "1", "--data", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO


_CERTIFIED_RUNS = {
    "unlearn-one langevin": ["unlearn-one"],
    "unlearn-one d2d_thm28": ["unlearn-one", "--method", "d2d_thm28"],
    "sequential langevin": ["sequential", "--sigma", "0.1", "--batch", "2",
                            "--total-removals", "4"],
    "sequential d2d_thm28": ["sequential", "--method", "d2d_thm28", "--total-removals", "3"],
    "sweep": ["sweep", "--sigma-grid", "0.5", "--total-removals", "2"],
}


def _accountant_row(case, pc, delta):
    """(sigma, epsilon_achieved, K_total) that the accountant gives for the
    run of `case` at eps = 1, from the constants pc and delta."""
    regime, eta = regime_for(pc), 1.0 / pc.L
    if case.endswith("d2d_thm28"):
        cal = d2d_sigma_thm28(1.0, delta, pc.M, pc.m, pc.n, pc.L, pc.d)
        requests = 3 if case.startswith("sequential") else 1
        return cal.sigma, 1.0, sum(cal.iterations(i) for i in range(1, requests + 1))
    if case == "sequential langevin":
        return 0.1, 1.0, sum(sequential_k_schedule(1.0, delta, 0.1, 4, 2, pc, regime, eta=eta))
    if case == "sweep":
        ns = NoiseSchedule(eta=eta, sigma=0.5, T=INFINITE, K=0)
        k = find_min_k(1.0, delta, pc, ns, regime, S=2)
        return 0.5, converted_epsilon(pc, ns, regime, 2, k, delta), k
    sigma = binary_search_sigma(1.0, delta, 1, pc, regime, S=1, eta=eta)
    ns = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=1)
    return sigma, converted_epsilon(pc, ns, regime, 1, 1, delta), 1


class TestCertifiesTheTrainedModel:
    """A trial protocol certifies with the constants of the model it trained,
    and delta defaults to 1/n of its rows: mnist38's lam over a file of 2000
    rows and 20 features certifies for n = 2000 and d = 20, not for the
    preset's 11982 rows of 724 features."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data") / "synthetic.csv"
        assert main(["make-data", "--preset", "synthetic", "--out", str(path)]) == EXIT_OK
        return str(path)

    @pytest.mark.parametrize("case", list(_CERTIFIED_RUNS))
    def test_certificate_is_the_trained_models(self, data, tmp_path, case):
        out = tmp_path / "x.csv"
        assert main([*_CERTIFIED_RUNS[case], "--preset", "mnist38", "--data", data, "--eps", "1",
                     "--trials", "1", "--n-iter", "5", "--out", str(out)]) == EXIT_OK
        pc = objective_for(load_dataset(data), lam=get_preset("mnist38").lam).constants
        assert (pc.n, pc.d, pc.lam) == (2000, 20, 0.0119)
        sigma, cert, k_total = _accountant_row(case, pc, 1.0 / 2000)
        row = out.read_text().splitlines()[1].split(",")
        assert row[1:5] == [format(sigma, ".12g"), "1", format(cert, ".12g"), str(k_total)]
        assert cert <= 1.0


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
    def test_bad_value_rejected(self, tmp_path, capsys, caplog, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = main(["calibrate-sigma", "--config", str(cfg), "--eps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        _assert_config_error_once(capsys.readouterr().err, caplog)
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

    def test_calibrate_sigma_timing_fills_wall_ms(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["calibrate-sigma", "--eps", "1,2", "--timing", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(float(row[7]) > 0.0 for row in rows)

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

    def test_make_data_writes_the_feature_dimension(self, tmp_path, monkeypatch):
        """cifar10-multi certifies 5120 weights but its rows have 512 features."""
        specs = []

        def small(spec, seed):
            specs.append(spec)
            return make_synthetic(dataclasses.replace(spec, n=20), seed)
        monkeypatch.setattr(cli, "make_synthetic", small)
        out = tmp_path / "d.csv"
        assert main(["make-data", "--preset", "cifar10-multi", "--out", str(out)]) == EXIT_OK
        assert (specs[0].n, specs[0].d, specs[0].n_classes) == (50000, 512, 10)
        assert out.read_text().splitlines()[0] == "# d=512 c=10 normalized=1"

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

    def test_far_initial_mean_leaves_stderr_empty(self, tmp_path):
        # the initial point's squared norm overflows; it is projected all the
        # same, and numpy's overflow warning must not reach the user
        out = tmp_path / "u.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "certunlearn.cli", "unlearn-one", "--preset", "synthetic",
             "--eps", "1", "--trials", "2", "--n-iter", "3", "--init-mean", "1e200",
             "--out", str(out)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["acc_mean"] == "0.746"


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


class TestFlagsPerSubcommand:
    def test_flag_table_covers_every_flag_once(self):
        assert set(_SAMPLE_VALUES) == set(cli._FLAGS)
        for name, fields in _subcommand_fields().items():
            assert fields <= set(cli._FLAGS), name
        pairs = sum(len(fields) + 2 for fields in _subcommand_fields().values())
        assert (pairs, len(_FOREIGN)) == (71, 55)  # 7 subcommands x 18 flags before

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,field", _FOREIGN, ids=[" ".join(p) for p in _FOREIGN])
    def test_foreign_flag_exits_4(self, tmp_path, capsys, via, command, field):
        flag, value = cli._FLAGS[field][0], _SAMPLE_VALUES[field]
        if via == "flag":
            argv = [command, flag] + ([] if value is None else [value])
        else:  # a false timing adds no flag, yet is foreign all the same
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:]} = {'false' if value is None else value}\n")
            argv = [command, "--config", str(cfg)]
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv", [
        ["sweep", "--method", "retrain", "--sigma-grid", "0.5", "--trials", "0"],
        ["sweep", "--method", "d2d_thm9", "--sigma-grid", "0.5", "--trials", "0"],
        ["sweep", "--sigma", "0.5", "--trials", "0"],  # not short for --sigma-grid
        ["sweep", "--sigma-grid", "0.5", "--eps", "1,5", "--trials", "0"],
        ["sequential", "--eps", "1,5", "--sigma", "0.03", "--trials", "0"],
        ["calibrate-sigma", "--trials", "7", "--sigma-grid", "3", "--method", "d2d_thm9",
         "--data", "/nonexistent", "--n-iter", "5"],
        ["evaluate", "--method", "d2d_thm28", "--k-budget", "9", "--batch", "4"],
        ["evaluate", "--eps", "1", "--trials", "0"],
        ["make-data", "--sigma", "2", "--method", "retrain"],
    ], ids=" ".join)
    def test_runs_that_did_something_else_exit_4(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv,filled", [
        ([], False), (["--timing"], True), (["--timing=yes"], True),
        (["--timing", "false"], False),
    ], ids=["absent", "bare", "yes", "false"])
    def test_timing_takes_an_optional_value(self, tmp_path, argv, filled):
        out = tmp_path / "c.csv"
        assert main(["calibrate-sigma", *argv, "--out", str(out)]) == EXIT_OK
        assert bool(out.read_text().splitlines()[1].split(",")[7]) == filled

    def test_each_subcommand_declares_exactly_the_fields_it_reads(self, tmp_path,
                                                                  monkeypatch):
        """Records the ExperimentConfig fields each protocol reads (after
        validation) over cheap runs: every accepted method, 0 and 1 trials."""
        data = tmp_path / "data.csv"
        assert main(["make-data", "--out", str(data)]) == EXIT_OK
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        reads, validated = set(), []

        class Recording(ExperimentConfig):
            def __post_init__(self):
                super().__post_init__()
                validated.append(self)

            def __getattribute__(self, name):
                if name in fields and any(cfg is self for cfg in validated):
                    reads.add(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(cli, "ExperimentConfig", Recording)
        trial_flags = ["--n-iter", "5", "--data", str(data), "--test-data", str(data)]
        runs = {
            "calibrate-sigma": [[]],
            "unlearn-one": [["--method", m] for m in METHODS],
            "sequential": [["--method", "langevin", "--sigma", "0.5"],
                           ["--method", "d2d_thm28"]],
            "sweep": [["--sigma-grid", "0.5"]],
            "evaluate": [[]],
            "d2d": [[]],
            "make-data": [[]],
        }
        for command, declared in _subcommand_fields().items():
            reads.clear()
            for argv in runs[command]:
                for trials in (["--trials", "0"], ["--trials", "1", *trial_flags]):
                    if "trials" not in declared:
                        trials = []
                    out = str(tmp_path / "x.csv")
                    assert main([command, *argv, *trials, "--out", out]) == EXIT_OK, argv
            assert reads - {"constants", "n_classes", "out"} <= declared, command
            assert declared <= reads, command

    @pytest.mark.slow  # 1863 runs, ~5 s
    def test_sigma_by_decades_ends_in_a_result_or_typed_error(self, tmp_path):
        logging.disable(logging.CRITICAL)
        try:
            for exponent in range(-320, 301):
                for command, flag in (("sweep", "--sigma-grid"), ("sequential", "--sigma"),
                                      ("unlearn-one", "--sigma")):
                    code = main([command, flag, f"1e{exponent}", "--trials", "0",
                                 "--out", str(tmp_path / "x.csv")])
                    assert code in (EXIT_OK, EXIT_CALIBRATION, EXIT_CONFIG), (command, exponent)
        finally:
            logging.disable(logging.NOTSET)

    def test_d2d_thm9_without_steps_exits_2(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["unlearn-one", "--method", "d2d_thm9", "--k-budget", "0",
                     "--trials", "0", "--out", str(out)]) == EXIT_CALIBRATION
        assert out.read_text().splitlines()[1].startswith("d2d_thm9,,")


# main's output (stdout, NUL, stderr) at COLUMNS=80 -> exit code and the first
# 16 hex digits of its sha256, as the eagerly built parser printed them
_PINNED_TEXTS = {
    ("--help",): (0, "67fd7906db0fb5e3"),
    ("calibrate-sigma", "--help"): (0, "691a1c4698332bd6"),
    ("unlearn-one", "--help"): (0, "27962c22114d89d6"),
    ("sequential", "--help"): (0, "b1324ffb1c56f3bd"),
    ("sweep", "--help"): (0, "c579627ef0ae5f44"),
    ("d2d", "--help"): (0, "cbf78b3a5aa33b5f"),
    ("evaluate", "--help"): (0, "8f579cf74153fb10"),
    ("make-data", "--help"): (0, "e4beba60af910082"),
    ("bogus",): (4, "5df08e114b82ffec"),
    (): (4, "81e584df89a21710"),
    ("sweep", "--sigma", "1"): (4, "ee9873c1bacb4948"),
    ("d2d", "--trials", "0"): (4, "6d72f721f1faf0dc"),
}


def _cli_text(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return code, f"{out.getvalue()}\0{err.getvalue()}"


class TestHelpText:
    """What main prints for help and for a rejected command line."""

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse lays out help differently across Python versions")
    @pytest.mark.parametrize("argv", list(_PINNED_TEXTS), ids=lambda a: " ".join(a) or "none")
    def test_pinned_bytes(self, monkeypatch, argv):
        code, text = _cli_text(argv, monkeypatch)
        assert (code, hashlib.sha256(text.encode()).hexdigest()[:16]) == _PINNED_TEXTS[argv]
